"""The three benchmark workloads.

Each workload is a closed loop with one caller: op k+1 starts when op k
returns.  Op k's inputs are drawn from the workload seed and k with
ctcsim.random_unitary / ctcsim.random_density, outside the timed region, and
the program sees only those inputs.  Ops run in rounds (a round is one op,
one circuit's inputs, or one pass over the CLI call list) and a run measures
whole rounds, so every run does the same mix of work.

Importing this module imports ctcsim; the benchmark times that import as
part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import ctcsim

import check

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_OPS = 16   # ops per recorded seed whose outputs are stored


def stored_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class _Evolve:
    """Ops that call ctcsim.ctc_evolve(circuit, rho) and return
    (rho_out, FixedPointResult)."""

    name = ""
    round_size = 1
    use_stored = True   # compare with the stored reference, where there is one

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.stored = stored_reference(self.name).get(str(seed), {})

    def run(self, inp):
        circuit, rho = inp
        return ctcsim.ctc_evolve(circuit, rho)

    def _unitary(self, circuit) -> np.ndarray:
        return check.unitary(circuit)

    def check(self, k: int, inp, out) -> list[str]:
        circuit, rho = inp
        rho_out, fp = out
        errors = check.evolution_errors(self._unitary(circuit), rho,
                                        circuit.cr_dim, circuit.ctc_dim,
                                        rho_out, fp)
        want = self.stored.get(str(k)) if self.use_stored else None
        if want is not None:
            errors += check.compare(self.record(out), want, f"op {k}")
        return errors

    def store(self, stored: dict, outputs) -> None:
        """Put (k, inp, out) outputs into the stored reference document."""
        stored[str(self.seed)] = {str(k): self.record(out) for k, _, out in outputs}

    @staticmethod
    def record(out) -> dict:
        rho_out, fp = out
        return {"rho_out": check.fingerprint(rho_out),
                "sigma": check.fingerprint(fp.sigma)}


class LoopHeavy(_Evolve):
    """A fresh Haar-random 3+3-qubit circuit (one dense gate on all six
    wires) and a random mixed CR input per op; no circuit is reused."""

    name = "loop-heavy"

    def op_input(self, k: int):
        u = ctcsim.random_unitary(64, [self.seed, k, 0])
        rho = ctcsim.random_density(8, [self.seed, k, 1])
        circuit = ctcsim.Circuit(cr_dims=(2, 2, 2), ctc_dims=(2, 2, 2),
                                 gates=(ctcsim.Gate("u", tuple(range(6)), u),))
        return circuit, rho

    def _unitary(self, circuit) -> np.ndarray:
        return circuit.gates[0].matrix


class CrHeavy(_Evolve):
    """6 CR + 1 CTC qubits: a depth-8 brickwork of Haar two-qubit gates with
    builtin h and cnot gates (40 gates), reused for 4 random CR inputs."""

    name = "cr-heavy"
    round_size = 4
    wires = 7

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._index = -1
        self._circuit = None
        self._u = None

    def _build(self, c: int):
        gates = []
        for layer in range(8):
            first = layer % 2
            for w in range(first, self.wires - 1, 2):
                u = ctcsim.random_unitary(4, [self.seed, c, layer, w])
                gates.append(ctcsim.Gate("haar", (w, w + 1), u))
            idle = self.wires - 1 if first == 0 else 0
            gates.append(ctcsim.Gate("h", (idle,)))
            cr = layer % 6
            pair = (6, cr) if first else (cr, 6)
            gates.append(ctcsim.Gate("cnot", pair))
        return ctcsim.Circuit(cr_dims=(2,) * 6, ctc_dims=(2,), gates=tuple(gates))

    def op_input(self, k: int):
        c, j = divmod(k, self.round_size)
        if c != self._index:
            self._index, self._circuit, self._u = c, self._build(c), None
        rho = ctcsim.random_density(64, [self.seed, c, j, 1])
        return self._circuit, rho

    def _unitary(self, circuit) -> np.ndarray:
        if self._u is None:
            self._u = check.unitary(circuit)
        return self._u


EXPERIMENTS = ("epr", "bhw2", "bhw4", "mixture", "superposition",
               "sim-equivalence", "identical-mixtures", "computation")
# (CR, CTC) dimension of each circuit file.  Three files make 19 calls a
# round: an odd count, so the median latency is the median of one call's
# latencies and not the midpoint between two calls of different cost.
FIXED_POINT_SIZES = ((2, 2), (4, 2), (2, 4))
# Circuit files keep every other loop-map eigenvalue at or below this modulus,
# so the brute-force oracle behind --verify stops at its first residual check
# on every seed and the call costs the same whatever the seed.
MAX_SLEM = 0.5


def _grid(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


class Experiments:
    """In-process `ctcsim.cli.main` calls, output captured, cycling through
    the named experiments and fixed-point solves of seeded circuit files."""

    name = "experiments"
    use_stored = True

    def __init__(self, seed: int, workdir: Path):
        import ctcsim.cli  # noqa: F401  (set-up times this import)
        self.seed = seed
        stored = stored_reference(self.name)
        self.calls = []   # (key, argv)
        for name in EXPERIMENTS:
            self.calls.append((f"experiment {name}", ["experiment", name]))
        for name in ("bhw4", "computation"):
            self.calls.append((f"experiment {name} max-entropy",
                               ["experiment", name, "--selection", "max-entropy"]))
        self.named = stored.get("named", {})
        self.seeded = stored.get("seeded", {}).get(str(seed), {})
        self.expected = {}
        for i, (cr, dc) in enumerate(FIXED_POINT_SIZES):
            u, rho = self._circuit(i, cr, dc)
            circuit_path = workdir / f"circuit{i}.json"
            rho_path = workdir / f"rho{i}.json"
            with open(circuit_path, "w", encoding="utf-8") as fh:
                json.dump({"cr_dims": [cr], "ctc_dims": [dc], "gates": [
                    {"name": "v", "wires": [0, 1], "matrix": _grid(u)}]}, fh)
            with open(rho_path, "w", encoding="utf-8") as fh:
                json.dump(_grid(rho), fh)
            base = ["fixed-point", str(circuit_path), "--input", f"@{rho_path}"]
            for mode, extra in (("canonical", []),
                                ("max-entropy", ["--selection", "max-entropy"]),
                                ("verify", ["--verify"])):
                key = f"fixed-point circuit{i} {mode}"
                self.calls.append((key, base + extra))
                self.expected[key] = (u, rho, cr, dc, mode)
        self.round_size = len(self.calls)
        self.reports: dict[str, str] = {}

    def _circuit(self, i: int, cr: int, dc: int):
        """The first seeded (U, rho) whose loop map has a unique fixed point
        and a spectral gap of at least 1 - MAX_SLEM, so every solver and the
        brute-force oracle converge."""
        attempt = 0
        while True:
            u = ctcsim.random_unitary(cr * dc, [self.seed, i, attempt])
            rho = ctcsim.random_density(cr, [self.seed, i, attempt, 1])
            _, gap = check.fixed_point(check.loop_map(u, rho, cr, dc), dc)
            if gap >= 1.0 - MAX_SLEM:
                return u, rho
            attempt += 1

    def op_input(self, k: int):
        return self.calls[k % self.round_size]

    def run(self, inp):
        _, argv = inp
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ctcsim.cli.main(argv)
        return code, buf.getvalue()

    def _independent(self, key: str) -> dict:
        """Expected results of a fixed-point call, from check's solver."""
        u, rho, cr, dc, mode = self.expected[key]
        sigma, _ = check.fixed_point(check.loop_map(u, rho, cr, dc), dc)
        fixed = {"fixed_space_dim": 1, "method": "exact", "residual": 0.0,
                 "selection": "max_entropy" if mode == "max-entropy" else "canonical",
                 "sigma": _grid(sigma)}
        results = {"fixed_point": fixed}
        if mode == "verify":
            results["verify"] = {
                "oracle": {"trials": 8, "converged": 8, "distinct_limits": 1,
                           "max_pairwise_distance": 0.0,
                           "max_distance_to_exact": 0.0},
                "cesaro": {"residual": 0.0, "distance_to_exact": 0.0}}
        return results

    def check(self, k: int, inp, out) -> list[str]:
        key, _ = inp
        code, text = out
        if code != 0:
            return [f"{key}: exit code {code}"]
        first = self.reports.setdefault(key, text)
        if first != text:
            return [f"{key}: report differs from the first identical call"]
        results = json.loads(text)["results"]
        errors = []
        if key in self.expected:
            errors += check.compare(results, self._independent(key), key)
            want = self.seeded.get(key)
        else:
            want = self.named.get(key)
            if want is None and self.use_stored:
                errors.append(f"{key}: no stored reference")
        if want is not None and self.use_stored:
            errors += check.compare(results, want, key)
        return errors

    def store(self, stored: dict, outputs) -> None:
        """Put (k, inp, out) outputs into the stored reference document."""
        seeded = stored.setdefault("seeded", {}).setdefault(str(self.seed), {})
        named = stored.setdefault("named", {})
        for _, (key, _), out in outputs:
            (seeded if key in self.expected else named)[key] = self.record(out)

    @staticmethod
    def record(out) -> dict:
        return json.loads(out[1])["results"]


WORKLOADS = {w.name: w for w in (LoopHeavy, CrHeavy, Experiments)}
