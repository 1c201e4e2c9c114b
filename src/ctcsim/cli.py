"""Command-line front end.

Two subcommands:

    ctcsim fixed-point CIRCUIT.json --input SPEC [--verify] [...]
    ctcsim experiment NAME [...]

Reports are JSON with frozen field names and a schema version; floats are
rounded to 12 significant digits so that identical (command line, seed)
pairs produce byte-identical output. Exit codes: 0 success, 2 input or
validation error, 3 numerical solver failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .circuit import (CircuitFormatError, _basis, _matrix_to_json,
                      compile_unitary, parse_circuit)
from .ctc import (SolverError, fixed_point_cesaro, fixed_point_exact,
                  induced_superoperator)
from .experiments import REGISTRY, fixed_point_record
from .oracle import fixed_point_bruteforce
from .qmat import ValidationError, trace_distance

SCHEMA_VERSION = 1
EXPERIMENTS = tuple(REGISTRY)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _round_floats(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _selection(arg: str) -> str:
    return "max_entropy" if arg == "max-entropy" else arg


def _named_input(name: str, dim: int) -> np.ndarray:
    if name == "mixed":
        return np.eye(dim, dtype=complex) / dim
    if name == "zero":
        vec = _basis(0, dim)
    elif name == "one":
        if dim < 2:
            raise ValidationError("input 'one' needs CR dimension >= 2")
        vec = _basis(1, dim)
    elif name in ("plus", "minus"):
        if dim != 2:
            raise ValidationError(f"input '{name}' needs CR dimension 2, got {dim}")
        sign = 1.0 if name == "plus" else -1.0
        vec = np.array([1.0, sign], dtype=complex) / math.sqrt(2)
    elif name == "bell":
        if dim != 4:
            raise ValidationError(f"input 'bell' needs CR dimension 4, got {dim}")
        vec = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    else:
        raise ValidationError(
            f"unknown input spec '{name}'; use zero|one|plus|minus|bell|mixed"
            " or @file.json")
    return np.outer(vec, vec.conj())


def _input_state(spec: str, dim: int) -> np.ndarray:
    """Resolve --input: a named state or @file.json holding a density matrix
    in the [[re, im], ...] grid format used for gate matrices."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            rows = [[complex(c[0], c[1]) for c in row] for row in doc]
        except (TypeError, IndexError) as exc:
            raise ValidationError(
                f"{spec[1:]}: expected a [[re, im], ...] matrix grid") from exc
        m = np.array(rows, dtype=complex)
        if m.shape != (dim, dim):
            raise ValidationError(
                f"{spec[1:]}: matrix is {m.shape[0]}x{m.shape[1]}, circuit CR"
                f" dimension is {dim}")
        return m
    return _named_input(spec, dim)


# --- subcommand drivers ----------------------------------------------------

def _cmd_fixed_point(args, seed: int) -> dict:
    with open(args.circuit_file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    circuit = parse_circuit(doc)
    rho = _input_state(args.input, circuit.cr_dim)
    selection = _selection(args.selection)
    u = compile_unitary(circuit)
    superop = induced_superoperator(u, rho, circuit.cr_dims, circuit.ctc_dims)
    fp = fixed_point_exact(superop, selection)
    results = {"fixed_point": dict(fixed_point_record(fp),
                                   sigma=_matrix_to_json(fp.sigma))}
    if args.verify:
        oracle = fixed_point_bruteforce(circuit, rho, trials=8, seed=seed)
        to_exact = [trace_distance(lim, fp.sigma)
                    for lim in oracle.distinct_limits]
        cesaro = fixed_point_cesaro(superop)
        results["verify"] = {
            "oracle": {
                "trials": oracle.trials,
                "converged": oracle.converged,
                "distinct_limits": len(oracle.distinct_limits),
                "max_pairwise_distance": oracle.max_pairwise_distance,
                "max_distance_to_exact": max(to_exact, default=math.inf),
            },
            "cesaro": {
                "residual": cesaro.residual,
                "distance_to_exact": trace_distance(cesaro.sigma, fp.sigma),
            },
        }
    return results


def _cmd_experiment(args, seed: int) -> tuple[dict, dict]:
    """Run the registered experiment with the arguments its function takes;
    return its results and the parameters the report echoes."""
    if args.sweep is not None and args.name != "mixture":
        raise ValidationError("--sweep only applies to 'mixture'")
    if args.csv is not None and args.sweep is None:
        raise ValidationError("--csv requires --sweep")
    run, echoes = REGISTRY[args.name]
    values = {"theta": args.theta, "probs": args.probs,
              "selection": _selection(args.selection), "trials": args.trials,
              "seed": seed, "sweep": args.sweep}
    takes = inspect.signature(run).parameters
    results = run(**{k: v for k, v in values.items() if k in takes})
    if args.csv is not None:
        _write_csv(args.csv, results["sweep"])
    parameters = {k: getattr(args, k) for k in echoes
                  if getattr(args, k) is not None}
    return results, parameters


def _write_csv(path: str, rows: list[dict]) -> None:
    lines = ["theta,mutual_info,product_distance,helstrom"]
    for r in rows:
        lines.append(",".join(f"{r[c]:.12g}" for c in
                              ("theta", "mutual_info", "product_distance",
                               "helstrom")))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(report: dict, out_path) -> None:
    text = json.dumps(_round_floats(report), indent=2, sort_keys=True) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcsim",
        description="Simulate quantum circuits interacting with a Deutsch-model"
                    " closed timelike curve.")
    sub = parser.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("fixed-point",
                        help="solve the self-consistency condition for a"
                             " circuit file and input state")
    fp.add_argument("circuit_file", help="circuit JSON file")
    fp.add_argument("--input", default="mixed",
                    help="zero|one|plus|minus|bell|mixed or @file.json"
                         " (default: mixed)")
    fp.add_argument("--selection", choices=("canonical", "max-entropy"),
                    default="canonical")
    fp.add_argument("--verify", action="store_true",
                    help="cross-check with brute-force and Cesaro solvers")
    fp.add_argument("--seed", type=int, default=None,
                    help="master seed (default: $CTC_SIM_SEED or 0)")
    fp.add_argument("--out", default=None, help="write report to this path")

    ex = sub.add_parser("experiment", help="run a named experiment")
    ex.add_argument("name", choices=EXPERIMENTS)
    ex.add_argument("--theta", type=float, default=math.pi / 4,
                    help="designated-state angle for bhw2-based experiments")
    ex.add_argument("--probs", type=float, default=0.5,
                    help="probability of label 0 (label 1 gets the rest)")
    ex.add_argument("--selection", choices=("canonical", "max-entropy"),
                    default="canonical")
    ex.add_argument("--seed", type=int, default=None,
                    help="master seed (default: $CTC_SIM_SEED or 0)")
    ex.add_argument("--trials", type=int, default=50,
                    help="trial count for sim-equivalence")
    ex.add_argument("--sweep", default=None, metavar="theta=START:STOP:STEP",
                    help="sweep theta (mixture experiment only)")
    ex.add_argument("--csv", default=None,
                    help="with --sweep: also write rows as CSV to this path")
    ex.add_argument("--out", default=None, help="write report to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None:
        seed = args.seed
    else:
        try:
            seed = int(os.environ.get("CTC_SIM_SEED", "0"))
        except ValueError:
            print("ctcsim: CTC_SIM_SEED must be an integer", file=sys.stderr)
            return EXIT_INPUT
    try:
        if args.command == "fixed-point":
            results = _cmd_fixed_point(args, seed)
            report = {"parameters": {"circuit_file": args.circuit_file,
                                     "input": args.input,
                                     "selection": args.selection,
                                     "verify": bool(args.verify)}}
        else:
            results, parameters = _cmd_experiment(args, seed)
            report = {"experiment": args.name, "parameters": parameters}
        report.update(schema_version=SCHEMA_VERSION, tool_version=__version__,
                      command=args.command, seed=seed, results=results)
        _emit(report, args.out)
    except (ValidationError, CircuitFormatError, OSError,
            json.JSONDecodeError) as exc:
        print(f"ctcsim: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"ctcsim: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
