"""Gate-level circuit model, JSON circuit format, and named circuit builders.

A circuit declares two wire registers: causality-respecting (CR) wires first,
then the wires that loop through the time machine (CTC wires). Gates act on
explicitly listed wires; the gate matrix is expressed with the first listed
wire as the most significant tensor factor, matching the package-wide
convention. Gate list order is temporal order, so the compiled unitary is the
reversed matrix product.

The on-disk format is strict JSON:

    { "cr_dims": [int, ...], "ctc_dims": [int, ...],
      "gates": [ { "name": str, "wires": [int, ...],
                   "matrix": [[[re, im], ...], ...] } ... ] }

Matrices are row-major arrays of [re, im] pairs. The builtin names "swap",
"h", "x" and "cnot" may omit "matrix"; unknown names must carry one. Parse
errors are annotated with the JSON path of the offending element.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .qmat import (BUILTIN_MATCH_TOL, GRAM_SCHMIDT_FLOOR, INNER_PRODUCT_TOL,
                   ValidationError, _as_array, _is_integer, _norms, _projectors,
                   _require_instance, _require_integer, _sequence, _state_failure,
                   kron, require_unitary, validate)

BUILTIN_GATES = ("swap", "h", "x", "cnot")

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


class CircuitFormatError(ValidationError):
    """A circuit violates the schema or its semantic invariants; the message
    starts with the JSON path of the offending element."""

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        super().__init__(f"{path}: {message}")


def _integers(values, path: str) -> tuple:
    """values as a tuple, Python and numpy integers as int; any other entry,
    a bool or a float among them, is kept for Circuit's checks to refuse."""
    return tuple(int(v) if _is_integer(v) else v
                 for v in _sequence(values, path, CircuitFormatError))


def builtin_matrix(name: str, wire_dims: tuple[int, ...]) -> np.ndarray:
    """The canonical matrix of a builtin gate for the given wire dimensions."""
    if name == "swap":
        if (not isinstance(wire_dims, tuple) or len(wire_dims) != 2
                or wire_dims[0] != wire_dims[1]):
            raise ValidationError(
                f"swap needs two wires of equal dimension, got {wire_dims}")
        d = _require_integer(wire_dims[0], "swap wire dimension")
        # row (b, a) holds the column (a, b)
        return np.eye(d * d, dtype=complex).reshape(d, d, -1).transpose(
            1, 0, 2).reshape(d * d, d * d)
    if name == "h" or name == "x":
        if wire_dims != (2,):
            raise ValidationError(f"{name} needs one qubit wire, got {wire_dims}")
        return _H.copy() if name == "h" else _X.copy()
    if name == "cnot":
        if wire_dims != (2, 2):
            raise ValidationError(f"cnot needs two qubit wires, got {wire_dims}")
        return np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    raise ValidationError(f"unknown builtin gate {name!r}")


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate: a name, the wires it acts on, and optionally its matrix.

    matrix is None for builtin gates, whose canonical matrix their circuit
    resolves from the wire dimensions when it is built. Otherwise it is a
    read-only copy of the caller's array, so a gate cannot change after its
    circuit checked it.
    """

    name: str
    wires: tuple[int, ...]
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise CircuitFormatError("expected a string", "$.name")
        object.__setattr__(self, "wires", _integers(self.wires, "$.wires"))
        if self.matrix is not None:
            m = _as_array(self.matrix, f"gate {self.name!r} matrix").copy("K")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, so the copy's
        # matrix is read-only too
        return (type(self), (self.name, self.wires, self.matrix))

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if self.name != other.name or self.wires != other.wires:
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or np.array_equal(self.matrix, other.matrix)


def _check_gate(gate: Gate, dims: tuple[int, ...]) -> np.ndarray:
    """Semantic gate checks against the declared wire dimensions; returns the
    gate's matrix, a builtin's canonical (read-only) one."""
    n = len(dims)
    if not all(map(_is_integer, gate.wires)):
        raise ValidationError(
            f"gate {gate.name!r} wires must be integers, got {list(gate.wires)}")
    if len(set(gate.wires)) != len(gate.wires):
        raise ValidationError(f"gate {gate.name!r} lists duplicate wires {gate.wires}")
    if not gate.wires:
        raise ValidationError(f"gate {gate.name!r} lists no wires")
    for w in gate.wires:
        if w < 0 or w >= n:
            raise ValidationError(
                f"gate {gate.name!r} wire {w} out of range 0..{n - 1}")
    wire_dims = tuple(dims[w] for w in gate.wires)
    span = math.prod(wire_dims)
    m = gate.matrix
    if m is None and gate.name not in BUILTIN_GATES:
        raise ValidationError(f"gate {gate.name!r} is not builtin and has no matrix")
    if m is not None:
        if m.shape != (span, span):
            raise ValidationError(
                f"gate {gate.name!r} matrix shape {m.shape} does not match wire "
                f"dimensions {wire_dims} (expected {(span, span)})")
        report = validate(m, "unitary")
        if not report.ok:
            name, deviation = report.violations[0]
            raise ValidationError(
                f"gate {gate.name!r} matrix has non-finite entries"
                if name == "finite entries" else
                f"gate {gate.name!r} matrix not unitary (deviation {deviation:.3e})")
    if gate.name not in BUILTIN_GATES:
        return m
    canonical = builtin_matrix(gate.name, wire_dims)
    if m is not None and np.abs(m - canonical).max() > BUILTIN_MATCH_TOL:
        raise ValidationError(
            f"gate {gate.name!r} matrix conflicts with the builtin definition")
    canonical.setflags(write=False)
    return canonical


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate list over declared CR and CTC wire registers.

    Construction checks the dimensions, the labels and every gate, and raises
    CircuitFormatError with the JSON path of the field at fault ($.cr_dims,
    $.ctc_dims, an entry [k] of either, $.labels, $.gates or $.gates[k]); a
    field that is not a sequence is refused too. A builtin-named gate that
    carries its builtin matrix is stored in canonical form, with matrix None.
    Each gate's matrix, a builtin's resolved once here, is kept for
    compile_unitary.
    """

    cr_dims: tuple[int, ...]
    ctc_dims: tuple[int, ...]
    gates: tuple[Gate, ...] = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "cr_dims", _integers(self.cr_dims, "$.cr_dims"))
        object.__setattr__(self, "ctc_dims", _integers(self.ctc_dims, "$.ctc_dims"))
        object.__setattr__(self, "gates",
                           _sequence(self.gates, "$.gates", CircuitFormatError))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(
                str(s) for s in _sequence(self.labels, "$.labels", CircuitFormatError)))
        for reg_name, reg in (("cr_dims", self.cr_dims), ("ctc_dims", self.ctc_dims)):
            if not reg:
                raise CircuitFormatError("must not be empty", f"$.{reg_name}")
            for k, d in enumerate(reg):
                if not _is_integer(d):
                    raise CircuitFormatError("expected an integer", f"$.{reg_name}[{k}]")
            if any(d < 2 for d in reg):
                raise CircuitFormatError(f"entries must be >= 2, got {list(reg)}",
                                         f"$.{reg_name}")
        if self.labels is not None and len(self.labels) != self.n_wires:
            raise CircuitFormatError(
                f"labels count {len(self.labels)} != wire count {self.n_wires}",
                "$.labels")
        gates, matrices = [], []
        for k, g in enumerate(self.gates):
            if not isinstance(g, Gate):
                raise CircuitFormatError(f"expected a Gate, got {type(g).__name__}",
                                         f"$.gates[{k}]")
            try:
                matrices.append(_check_gate(g, self.dims))
            except ValidationError as exc:
                raise CircuitFormatError(str(exc), f"$.gates[{k}]") from exc
            if g.name in BUILTIN_GATES and g.matrix is not None:
                g = Gate(g.name, g.wires)  # canonical form
            gates.append(g)
        object.__setattr__(self, "gates", tuple(gates))
        object.__setattr__(self, "_matrices", tuple(matrices))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.cr_dims + self.ctc_dims

    @property
    def n_wires(self) -> int:
        return len(self.dims)

    @property
    def cr_dim(self) -> int:
        return math.prod(self.cr_dims)

    @property
    def ctc_dim(self) -> int:
        return math.prod(self.ctc_dims)

    @property
    def total_dim(self) -> int:
        return self.cr_dim * self.ctc_dim

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which checks the
        # gates again; the copy compiles its own read-only U when asked
        return (type(self), (self.cr_dims, self.ctc_dims, self.gates,
                             self.labels))

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.cr_dims == other.cr_dims
                and self.ctc_dims == other.ctc_dims
                and self.labels == other.labels
                and self.gates == other.gates)


# (1, i) on a leading axis, to multiply a stack of matrices g into (g, i g)
_PHASES = np.array([1, 1j]).reshape(2, 1, 1, 1)


def _block_stack(matrices) -> np.ndarray:
    """The real 2s-square blocks [[Re g, -Im g], [Im g, Re g]] of s-square
    complex matrices g, as one (m, 2s, 2s) array: the pair (g, i g) viewed as
    reals. A block multiplies the stacked planes [Re X; Im X] into
    [Re gX; Im gX]."""
    m, s = len(matrices), len(matrices[0])
    pairs = np.multiply(_PHASES, matrices).view(float)
    return pairs.reshape(2, m, s, s, 2).transpose(1, 4, 2, 0, 3).reshape(
        m, 2 * s, 2 * s)


# the blocks of the qubit builtins, by (name, span), built once
_BUILTIN_BLOCKS = {
    (name, 2 ** len(dims)): block
    for name, dims in (("h", (2,)), ("x", (2,)), ("cnot", (2, 2)),
                       ("swap", (2, 2)))
    for block in _block_stack([builtin_matrix(name, dims)])}


def _real_blocks(gates, matrices) -> list[np.ndarray]:
    """Each gate's real block: a qubit builtin's from _BUILTIN_BLOCKS, the
    others from one _block_stack per span, for all gates of that span."""
    blocks = [_BUILTIN_BLOCKS.get((gate.name, len(g))) if gate.matrix is None
              else None for gate, g in zip(gates, matrices)]
    todo = [k for k, b in enumerate(blocks) if b is None]
    for s in {len(matrices[k]) for k in todo}:
        ks = [k for k in todo if len(matrices[k]) == s]
        for k, block in zip(ks, _block_stack([matrices[k] for k in ks])):
            blocks[k] = block
    return blocks


def compile_unitary(circuit: Circuit) -> np.ndarray:
    """Full-dimension unitary of the circuit, compiled once per Circuit.

    The leftmost gate acts first, so it sits rightmost in the matrix product.
    An empty gate list compiles to the identity. The product is held in real
    arithmetic, as one array of shape (2, *dims, D): its first axis holds the
    real and the imaginary plane of a tensor with one row axis per wire plus
    one column axis, and `order` tracks which wire each row axis holds. Each
    gate g of span s costs one transposed copy into a spare array that brings
    the plane axis and its wires' axes to the front, and one real product of
    its 2s-square block [[Re g, -Im g], [Im g, Re g]] with them, reshaped to
    (2s, D^2 / s), back into the planes' array: 4 D^2 s real multiply-adds.
    The complex product g @ X it replaces, with inner dimension s <= 4, is so
    skinny that BLAS runs it far below its speed; the real one has twice the
    inner dimension and no complex arithmetic, and a 40-gate 6+1-qubit
    brickwork compiles in about two thirds of the complex loop's time.
    The product's axes stay where it puts them. At the end one transpose
    restores wire order as the planes are written through the .real and
    .imag views of U, the one complex array. So the compile holds three
    U-sized arrays, the planes, the spare and U, and allocates none per
    gate: a U-sized temporary freed per gate can make the heap give pages
    back to the system and fault them in again on the next gate.

    A first gate on all wires in ascending order is copied into the planes
    at cost D^2, equal entry for entry to its contraction into the identity;
    if it is the only gate, U is a copy of its matrix and no planes are made.

    The first call stores U on the circuit and every later call returns that
    same read-only array. This is sound because a Circuit cannot change after
    construction: it is frozen, and the gate matrices it resolved when it was
    built are read-only. The stored U lives exactly as long as its circuit.
    """
    try:   # anything but a Circuit lacks __dict__ or _matrices
        u = circuit.__dict__.get("_unitary")
        if u is not None:
            return u
        gates, matrices = circuit.gates, list(circuit._matrices)
    except AttributeError:
        _require_instance(circuit, Circuit, "circuit")
        raise
    dims = circuit.dims
    n, total = len(dims), math.prod(dims)
    first_on_all = bool(gates) and gates[0].wires == tuple(range(n))
    if first_on_all and len(gates) == 1:
        u = np.array(matrices[0])
    else:
        if first_on_all:
            g = matrices.pop(0)
            planes = np.array((g.real, g.imag)).reshape((2,) + dims + (total,))
            gates = gates[1:]
        else:   # the identity: ones on the real plane's diagonal
            planes = np.zeros((2,) + dims + (total,))
            planes.reshape(-1)[:total * total:total + 1] = 1.0
        order, spare = list(range(n)), np.empty_like(planes)
        for gate, block in zip(gates, _real_blocks(gates, matrices)):
            rest = [a + 1 for a, w in enumerate(order) if w not in gate.wires]
            view = planes.transpose(
                [0] + [order.index(w) + 1 for w in gate.wires] + rest + [n + 1])
            x = spare.reshape(view.shape)
            np.copyto(x, view)
            # the product leaves the plane axis and the gate's wires first,
            # the rest as they were
            planes = np.matmul(block, x.reshape(len(block), -1),
                               out=planes.reshape(len(block), -1))
            planes = planes.reshape(x.shape)
            order = list(gate.wires) + [order[a - 1] for a in rest]
        planes = planes.transpose(
            [0] + [order.index(w) + 1 for w in range(n)] + [n + 1])
        u = np.empty(dims + (total,), dtype=complex)
        np.copyto(u.real, planes[0])
        np.copyto(u.imag, planes[1])
        u = u.reshape(total, total)
    u.setflags(write=False)
    object.__setattr__(circuit, "_unitary", u)
    return u


# ---------------------------------------------------------------------------
# deterministic unitary completion
# ---------------------------------------------------------------------------

def _gram_schmidt_extend(vectors: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Orthonormalize `vectors` and extend them to a full basis by the standard
    basis vectors in index order, in one pass. A residual no longer than
    GRAM_SCHMIDT_FLOOR is an error for a constraint vector, skipped for a basis one."""
    basis: list[np.ndarray] = []
    n = len(vectors)
    for k in range(n + dim):
        w = np.array(vectors[k], dtype=complex) if k < n else _basis(k - n, dim)
        for b in basis:
            w -= b * np.vdot(b, w)
        nw = float(np.linalg.norm(w))
        if k < n and nw <= GRAM_SCHMIDT_FLOOR:
            raise ValidationError(f"constraint vectors linearly dependent (vector {k})")
        if k < n or nw > GRAM_SCHMIDT_FLOOR:
            basis.append(w / nw)
    if len(basis) != dim:
        raise ValidationError("Gram-Schmidt extension failed to reach full rank")
    return basis


def complete_unitary(constraints, dim: int) -> np.ndarray:
    """Deterministic unitary satisfying input -> output vector constraints.

    The constraint inputs and outputs are each orthonormalized and extended to
    full bases by Gram-Schmidt over the standard basis in index order; the
    k-th appended input residual maps to the k-th appended output residual.
    Identical constraints therefore yield a bit-identical matrix.

    Args:
        constraints: pairs (input vector, output vector), each of length dim,
            with linearly independent inputs and pairwise-preserved inner
            products (required for a unitary to exist).
        dim: matrix dimension.

    Raises:
        ValidationError: inconsistent (inner-product mismatch, naming the
            violating pair), linearly dependent or non-finite constraints.
    """
    _require_integer(dim, "dimension")
    pairs = [tuple(_as_array(v, "constraint").reshape(-1)
                   for v in _sequence(p, f"$.constraints[{k}]", CircuitFormatError))
             for k, p in enumerate(_sequence(constraints, "$.constraints",
                                             CircuitFormatError))]
    if any(len(p) != 2 for p in pairs):
        raise ValidationError("each constraint must be a pair (input, output)")
    if not pairs:
        raise ValidationError("complete_unitary needs at least one constraint")
    for k, (vin, vout) in enumerate(pairs):
        if vin.shape != (dim,) or vout.shape != (dim,):
            raise ValidationError(f"constraint {k} vectors must have length {dim}")
        if not (np.isfinite(vin).all() and np.isfinite(vout).all()):
            raise ValidationError(f"constraint {k} has non-finite entries")
    for i in range(len(pairs)):
        for j in range(i, len(pairs)):
            gin = np.vdot(pairs[i][0], pairs[j][0])
            gout = np.vdot(pairs[i][1], pairs[j][1])
            if abs(gin - gout) > INNER_PRODUCT_TOL:
                raise ValidationError(
                    f"constraints {i} and {j} do not preserve inner products "
                    f"(<in_{i}|in_{j}> = {gin:.6g}, <out_{i}|out_{j}> = {gout:.6g})")
    basis_in = _gram_schmidt_extend([p[0] for p in pairs], dim)
    basis_out = _gram_schmidt_extend([p[1] for p in pairs], dim)
    u = np.zeros((dim, dim), dtype=complex)
    for bi, bo in zip(basis_in, basis_out):
        u += np.outer(bo, bi.conj())
    require_unitary(u, what="completed unitary")
    return u


# ---------------------------------------------------------------------------
# named circuit builders
# ---------------------------------------------------------------------------


def _basis(i: int, d: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def _as_states(states, name) -> list[np.ndarray]:
    """The states flattened to vectors and checked by _state_failure, as one
    stack where they share a dimension and one at a time where not; the first
    bad one raises, named by name(its index)."""
    vecs = [_as_array(v, name(k)).reshape(-1) for k, v in enumerate(states)]
    same = len({len(v) for v in vecs}) == 1
    for k, stack in enumerate([np.stack(vecs)] if same else [v[None] for v in vecs]):
        failure = _state_failure(stack)
        if failure is not None:
            k += failure[0]
            if failure[1].violations[0][0] == "finite entries":
                raise ValidationError(f"{name(k)} has non-finite entries")
            raise ValidationError(
                f"{name(k)} not normalized (norm {_norms(vecs[k]):.12g})")
    return vecs


def _same_ray(a: np.ndarray, b: np.ndarray) -> bool:
    """Unit vectors a and b coincide up to phase, within INNER_PRODUCT_TOL."""
    return 1.0 - abs(np.vdot(a, b)) <= INNER_PRODUCT_TOL


def pad_with_ancillas(state, dim: int) -> np.ndarray:
    """Tensor |0...0> ancillas onto `state` to reach total dimension `dim`."""
    a = _as_array(state, "state").reshape(-1)
    if not (_is_integer(dim) and 0 < a.size <= dim and dim % a.size == 0):
        raise ValidationError(
            f"cannot pad a dimension-{a.size} state to dimension {dim}")
    extra = dim // a.size
    return a if extra == 1 else np.kron(a, _basis(0, extra))


def build_epr_swap() -> Circuit:
    """Two CR qubits A, B and one CTC qubit; the single gate swaps B into the
    time machine. Feeding the maximally entangled pair on AB disentangles it:
    the consistent CTC state is I/2 and the output is I/4."""
    return Circuit(cr_dims=(2, 2), ctc_dims=(2,),
                   gates=(Gate("swap", (1, 2)),),
                   labels=("A", "B", "CTC"))


def build_bhw2(psi) -> Circuit:
    """Two-state discriminator: maps designated inputs |0> and |psi> to the
    orthogonal outputs |0> and |1> via time-machine self-consistency.

    Layout: one CR qubit and one CTC qubit; a controlled-U with the CTC wire
    as control and the CR wire as target, then a swap of the two wires. U is
    the deterministic completion of {psi -> |1>, psi_perp -> -|0>} where
    psi_perp is the normalized Gram-Schmidt residual of |0> against psi. The
    sign on the second constraint makes the consistent CTC state diagonal for
    every mixture of the designated inputs, which is what erases label-state
    correlations at the mixture level.

    Raises:
        ValidationError: psi not normalized, wrong dimension, or equal to |0>
            up to phase (nothing to discriminate).
    """
    (psi,) = _as_states([psi], lambda k: "psi")
    if psi.shape != (2,):
        raise ValidationError("psi must be a single-qubit state")
    e0, e1 = _basis(0, 2), _basis(1, 2)
    if _same_ray(psi, e0):
        raise ValidationError("psi coincides with |0> up to phase")
    residual = e0 - psi * np.vdot(psi, e0)
    psi_perp = residual / np.linalg.norm(residual)
    u = complete_unitary([(psi, e1), (psi_perp, -e0)], 2)
    p0, p1 = _projectors(np.eye(2, dtype=complex))
    cu = kron(np.eye(2, dtype=complex), p0) + kron(u, p1)
    return Circuit(cr_dims=(2,), ctc_dims=(2,),
                   gates=(Gate("cu", (0, 1), cu), Gate("swap", (0, 1))),
                   labels=("CR", "CTC"))


def build_bhw_multi(states) -> Circuit:
    """Multi-state discriminator: designated pure inputs map to orthogonal
    basis outputs via time-machine self-consistency.

    The CR register is the input system padded with |0...0> ancillas to
    dimension D, the next power of two >= max(state count, input dimension);
    the CTC register mirrors it. One "select" gate on all wires applies
    sum_i V_i (x) |i><i|, the CTC basis value i choosing the CR unitary V_i;
    then the registers are fully swapped. V_i = P_i Q_i+. The first d_in
    columns of Q_i span the padded input subspace (indices b * D / d_in):
    phi_i and the Gram-Schmidt residuals of the input basis against it for
    i < n, the input basis itself for the leftover values i >= n. P_i sends
    column k of them to |(i+k) mod D>, for leftover values to |(i+1+k) mod D>;
    the other columns of Q_i, the basis vectors off that subspace, go in
    index order to the unused outputs in ascending order.

    On input phi_i the CTC value i is absorbing: |i><i| is a fixed point,
    with CR output |i>. For generic states weight parked on any other value
    flows back to i, so that fixed point is the only one; on basis inputs
    the branches can cycle control values instead, a second fixed point
    (states |0>, |1>, |2> of dimension 8, input |2>: 1 -> 3 -> 6 -> 1).

    Args:
        states: n >= 2 normalized vectors of one common power-of-two
            dimension, pairwise distinct as rays.
    """
    try:
        states = list(states)
    except TypeError:
        raise ValidationError("states must be a sequence of state vectors") from None
    vecs = _as_states(states, "states[{}]".format)
    n = len(vecs)
    if n < 2:
        raise ValidationError("need at least two states to discriminate")
    d_in = vecs[0].size
    if any(v.size != d_in for v in vecs):
        raise ValidationError("states must share one dimension")
    if d_in < 2 or d_in & (d_in - 1):
        raise ValidationError(f"state dimension must be a power of two >= 2, got {d_in}")
    for i in range(n):
        for j in range(i + 1, n):
            if _same_ray(vecs[i], vecs[j]):
                raise ValidationError(f"states {i} and {j} coincide up to phase")
    total = 1 << (max(n, d_in) - 1).bit_length()
    m = total.bit_length() - 1
    indices = np.arange(total)
    padded = indices[::total // d_in]
    off = np.delete(indices, padded)

    select = np.zeros((total,) * 4, dtype=complex)   # axes (row, i, column, i)
    for i in range(total):
        first = i if i < n else i + 1
        outs = (first + np.arange(d_in)) % total
        # row outs[k] of V_i: column k of Q_i, conjugated, on the padded columns
        q = (_gram_schmidt_extend([vecs[i]], d_in) if i < n
             else np.eye(d_in, dtype=complex))
        select[outs[:, None], i, padded, i] = np.conj(q)
        select[np.delete(indices, outs), i, off, i] = 1.0
    gates = [Gate("select", tuple(range(2 * m)), select.reshape(total ** 2, -1))]
    gates += [Gate("swap", (j, m + j)) for j in range(m)]
    wire_dims = (2,) * m
    return Circuit(cr_dims=wire_dims, ctc_dims=wire_dims, gates=tuple(gates))


# ---------------------------------------------------------------------------
# JSON parsing and serialization
# ---------------------------------------------------------------------------


def _parse_dim_list(obj, path: str) -> tuple:
    # Circuit judges the entries
    if not isinstance(obj, list):
        raise CircuitFormatError("expected an array of integers", path)
    return tuple(obj)


def _parse_matrix(obj, path: str) -> np.ndarray:
    """A nonempty grid of [re, im] pairs with rows of one length, as a
    complex matrix; its shape is left to the caller to check."""
    if not isinstance(obj, list) or not obj:
        raise CircuitFormatError("expected a nonempty array of rows", path)
    rows = []
    width = None
    for r, row in enumerate(obj):
        if not isinstance(row, list):
            raise CircuitFormatError("expected an array of [re, im] pairs",
                                     f"{path}[{r}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CircuitFormatError(
                f"row length {len(row)} != {width} of earlier rows", f"{path}[{r}]")
        entries = []
        for c, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                               for x in cell)):
                raise CircuitFormatError("expected an [re, im] number pair",
                                         f"{path}[{r}][{c}]")
            entries.append(complex(cell[0], cell[1]))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def parse_circuit(doc) -> Circuit:
    """Parse a circuit document and build the Circuit, which validates it.

    Args:
        doc: JSON text or an already-decoded dict.

    Returns:
        The validated Circuit.

    Raises:
        CircuitFormatError: schema violation here, or a semantic one raised
            by Circuit (non-integer dimension or wire, non-unitary gate,
            out-of-range wire, unknown matrixless gate, ...); the message
            starts with the JSON path of the offending element.
    """
    if isinstance(doc, (str, bytes)):
        try:
            data = json.loads(doc)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise CircuitFormatError(f"not valid JSON: {exc}") from exc
    else:
        data = doc
    if not isinstance(data, dict):
        raise CircuitFormatError("top level must be an object")
    allowed = {"cr_dims", "ctc_dims", "gates", "labels"}
    for key in data:
        if key not in allowed:
            raise CircuitFormatError("unknown key", f"$.{key}")
    for key in ("cr_dims", "ctc_dims", "gates"):
        if key not in data:
            raise CircuitFormatError(f"missing required key {key!r}")
    cr_dims = _parse_dim_list(data["cr_dims"], "$.cr_dims")
    ctc_dims = _parse_dim_list(data["ctc_dims"], "$.ctc_dims")
    labels = None
    if "labels" in data:
        labels = data["labels"]
        if (not isinstance(labels, list)
                or not all(isinstance(s, str) for s in labels)):
            raise CircuitFormatError("expected an array of strings", "$.labels")
    if not isinstance(data["gates"], list):
        raise CircuitFormatError("expected an array of gate objects", "$.gates")
    gates = []
    for k, raw in enumerate(data["gates"]):
        gpath = f"$.gates[{k}]"
        if not isinstance(raw, dict):
            raise CircuitFormatError("expected a gate object", gpath)
        for key in raw:
            if key not in ("name", "wires", "matrix"):
                raise CircuitFormatError("unknown key", f"{gpath}.{key}")
        if "name" not in raw or not isinstance(raw["name"], str):
            raise CircuitFormatError("missing or non-string 'name'", gpath)
        if not isinstance(raw.get("wires"), list):   # Circuit judges the entries
            raise CircuitFormatError("missing or non-integer-array 'wires'", gpath)
        matrix = None
        if "matrix" in raw:
            matrix = _parse_matrix(raw["matrix"], f"{gpath}.matrix")
        gates.append(Gate(raw["name"], tuple(raw["wires"]), matrix))
    return Circuit(cr_dims=cr_dims, ctc_dims=ctc_dims, gates=tuple(gates),
                   labels=labels)


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(cell.real), float(cell.imag)] for cell in row] for row in m]


def serialize_circuit(circuit: Circuit) -> str:
    """Serialize to the JSON circuit format.

    Builtin gates are written without a matrix, so parse(serialize(c)) == c
    bit-exactly on the Circuit value.
    """
    _require_instance(circuit, Circuit, "circuit")
    doc: dict = {"cr_dims": list(circuit.cr_dims),
                 "ctc_dims": list(circuit.ctc_dims)}
    if circuit.labels is not None:
        doc["labels"] = list(circuit.labels)
    doc["gates"] = []
    for g in circuit.gates:
        entry: dict = {"name": g.name, "wires": list(g.wires)}
        if g.matrix is not None:
            entry["matrix"] = _matrix_to_json(g.matrix)
        doc["gates"].append(entry)
    return json.dumps(doc, indent=2) + "\n"
